//! Result containers and table rendering for experiments.

use std::fmt::Write as _;

/// Provenance header every `BENCH_*.json` emitter writes ahead of its rows,
/// so a committed benchmark file records what was actually measured: the
/// schema version, the run mode (`quick`/`full`), the cargo profile the
/// binary was compiled with, the fsync policy in effect and the transport
/// the workload crossed. Numbers from a `debug` build or a different fsync
/// policy are not comparable — the header makes such mismatches visible
/// instead of silently poisoning a perf trajectory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchMeta {
    /// Schema identifier, e.g. `"rdht-bench-storage/v2"`.
    pub schema: String,
    /// Repetition scale: `"quick"` (CI) or `"full"`.
    pub mode: String,
    /// Cargo profile the emitting binary was compiled with
    /// (`"release"`/`"debug"`, from `cfg!(debug_assertions)`).
    pub profile: &'static str,
    /// Fsync policy the measured workload ran under; `"swept per bench"`
    /// when individual rows vary it, `"none"` when nothing journals.
    pub fsync: String,
    /// Transport the measured operations crossed (`"in-process"`,
    /// `"channel"`, `"tcp"`, or a per-row note).
    pub transport: String,
}

impl BenchMeta {
    /// A header for `schema`/`mode` with the compile-time profile filled in
    /// and `fsync`/`transport` at their "nothing journaled, no wire"
    /// defaults.
    pub fn new(schema: impl Into<String>, mode: impl Into<String>) -> Self {
        BenchMeta {
            schema: schema.into(),
            mode: mode.into(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            fsync: "none".to_string(),
            transport: "in-process".to_string(),
        }
    }

    /// Sets the fsync-policy note.
    pub fn with_fsync(mut self, fsync: impl Into<String>) -> Self {
        self.fsync = fsync.into();
        self
    }

    /// Sets the transport note.
    pub fn with_transport(mut self, transport: impl Into<String>) -> Self {
        self.transport = transport.into();
        self
    }

    /// Renders the header as the opening member lines of a JSON object —
    /// `"schema"` through `"transport"`, each indented two spaces and
    /// comma-terminated, ready for the emitter to append its own arrays.
    pub fn header_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "  \"schema\": \"{}\",", self.schema);
        let _ = writeln!(out, "  \"mode\": \"{}\",", self.mode);
        let _ = writeln!(out, "  \"profile\": \"{}\",", self.profile);
        let _ = writeln!(out, "  \"fsync\": \"{}\",", self.fsync);
        let _ = writeln!(out, "  \"transport\": \"{}\",", self.transport);
        out
    }
}

/// One plotted series (one line of a paper figure).
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Legend label (e.g. "UMS-Direct").
    pub label: String,
    /// `(x, y)` points, in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a named series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The y value at a given x, if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (px - x).abs() < 1e-9)
            .map(|(_, y)| *y)
    }

    /// Whether the series is monotonically non-decreasing in y.
    pub fn is_non_decreasing(&self) -> bool {
        self.points.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-12)
    }

    /// Whether the series is monotonically non-increasing in y.
    pub fn is_non_increasing(&self) -> bool {
        self.points.windows(2).all(|w| w[1].1 <= w[0].1 + 1e-12)
    }
}

/// The reproduction of one table or figure.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentResult {
    /// Short identifier ("fig7", "theorem1", ...).
    pub id: String,
    /// Human-readable title, matching the paper's caption.
    pub title: String,
    /// Label of the x axis (swept parameter).
    pub x_label: String,
    /// Label of the y axis (reported metric).
    pub y_label: String,
    /// One series per algorithm (or per reported quantity).
    pub series: Vec<Series>,
    /// Free-form notes (scale used, interpretation caveats).
    pub notes: Vec<String>,
}

impl ExperimentResult {
    /// Creates an empty result shell.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        ExperimentResult {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Finds a series by label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Renders the result as a GitHub-flavoured markdown table (one row per
    /// x value, one column per series).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}", self.id, self.title);
        let _ = writeln!(out);
        let mut header = format!("| {} |", self.x_label);
        let mut rule = String::from("|---|");
        for series in &self.series {
            let _ = write!(header, " {} |", series.label);
            rule.push_str("---|");
        }
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{rule}");
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|(x, _)| *x))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        for x in xs {
            let mut row = format!("| {} |", trim_float(x));
            for series in &self.series {
                match series.y_at(x) {
                    Some(y) => {
                        let _ = write!(row, " {} |", trim_float(y));
                    }
                    None => row.push_str(" — |"),
                }
            }
            let _ = writeln!(out, "{row}");
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out);
            for note in &self.notes {
                let _ = writeln!(out, "- {note}");
            }
        }
        let _ = writeln!(out, "\n*y axis: {}*", self.y_label);
        out
    }

    /// Renders the result as CSV (`x,label,y` rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("x,series,y\n");
        for series in &self.series {
            for (x, y) in &series.points {
                let _ = writeln!(out, "{x},{},{y}", series.label);
            }
        }
        out
    }
}

fn trim_float(v: f64) -> String {
    if (v - v.round()).abs() < 1e-9 && v.abs() < 1e12 {
        format!("{}", v.round() as i64)
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> ExperimentResult {
        let mut result = ExperimentResult::new("figX", "demo", "peers", "seconds");
        let mut a = Series::new("A");
        a.push(10.0, 1.0);
        a.push(20.0, 2.0);
        let mut b = Series::new("B");
        b.push(10.0, 3.5);
        b.push(20.0, 3.0);
        result.series = vec![a, b];
        result.notes.push("quick scale".into());
        result
    }

    #[test]
    fn series_lookup_and_trends() {
        let result = sample_result();
        assert_eq!(result.series("A").unwrap().y_at(20.0), Some(2.0));
        assert!(result.series("A").unwrap().is_non_decreasing());
        assert!(result.series("B").unwrap().is_non_increasing());
        assert!(result.series("missing").is_none());
    }

    #[test]
    fn markdown_contains_all_points_and_notes() {
        let md = sample_result().to_markdown();
        assert!(md.contains("### figX — demo"));
        assert!(md.contains("| peers | A | B |"));
        assert!(md.contains("| 10 | 1 | 3.500 |"));
        assert!(md.contains("quick scale"));
    }

    #[test]
    fn csv_has_one_row_per_point() {
        let csv = sample_result().to_csv();
        assert_eq!(csv.lines().count(), 1 + 4);
        assert!(csv.contains("20,B,3"));
    }

    #[test]
    fn trim_float_renders_integers_compactly() {
        assert_eq!(trim_float(5.0), "5");
        assert_eq!(trim_float(5.25), "5.250");
    }

    #[test]
    fn bench_meta_header_lists_all_provenance_fields() {
        let meta = BenchMeta::new("rdht-bench-demo/v2", "quick")
            .with_fsync("always")
            .with_transport("channel");
        let header = meta.header_json();
        assert!(header.contains("\"schema\": \"rdht-bench-demo/v2\","));
        assert!(header.contains("\"mode\": \"quick\","));
        assert!(header.contains("\"fsync\": \"always\","));
        assert!(header.contains("\"transport\": \"channel\","));
        // The profile is whatever this test binary was compiled as — just
        // assert it is one of the two legal values.
        assert!(
            header.contains("\"profile\": \"release\",")
                || header.contains("\"profile\": \"debug\",")
        );
        // Every line is a comma-terminated member, ready to be embedded.
        assert!(header.lines().all(|l| l.ends_with(',')));
    }

    #[test]
    fn bench_meta_defaults_describe_no_journal_no_wire() {
        let meta = BenchMeta::new("s/v2", "full");
        assert_eq!(meta.fsync, "none");
        assert_eq!(meta.transport, "in-process");
    }
}
