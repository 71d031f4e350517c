//! Named, unit-labelled metrics and the benchmark's output formats.

use lrm_bench::json::Json;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    /// `higher` / `lower`, as in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One measured value with its unit and direction.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
}

/// Collects metrics in emission order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric where more is better.
    pub fn higher(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.push(name.into(), unit, Better::Higher, value);
    }

    /// Appends a metric where less is better.
    pub fn lower(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.push(name.into(), unit, Better::Lower, value);
    }

    fn push(&mut self, name: String, unit: &'static str, better: Better, value: f64) {
        self.0.push(Metric {
            name,
            unit,
            better,
            value,
        });
    }

    /// The metric called `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

/// Aligned `name value unit better` table for people.
pub fn render_table(metrics: &[Metric]) -> String {
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    metrics
        .iter()
        .map(|m| {
            format!(
                "  {:<width$}  {:>14.6}  {:<8} ({} is better)\n",
                m.name,
                m.value,
                m.unit,
                m.better.name()
            )
        })
        .collect()
}

/// Metrics as JSON objects carrying value, unit and direction.
pub fn to_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                        ("better".into(), Json::Str(m.better.name().into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The single-line result object the benchmark prints last:
/// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body = Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    );
    let doc = Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0 && attempted > 0)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), body),
    ]);
    one_line(&doc)
}

/// Compacts the workspace JSON writer's pretty output onto one line.
/// Strings escape their newlines, so every raw newline is layout.
pub fn one_line(doc: &Json) -> String {
    doc.pretty().lines().map(str::trim_start).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_parseable_line() {
        let mut m = Metrics::default();
        m.higher("encode_mbps", "MB/s", 12.345678901);
        m.lower("setup_s", "s", 0.5);
        let line = result_line(10, 0, &m.0);
        assert!(!line.contains('\n'));
        let doc = lrm_bench::json::parse_json(&line).expect("valid JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let enc = doc.get("metrics").and_then(|x| x.get("encode_mbps"));
        assert_eq!(
            enc.and_then(|e| e.get("value")).and_then(Json::as_num),
            Some(12.345678901)
        );
        assert_eq!(
            enc.and_then(|e| e.get("unit")).and_then(Json::as_str),
            Some("MB/s")
        );
    }
}
