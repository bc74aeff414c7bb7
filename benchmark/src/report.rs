//! What one run of one workload produced, and its two written forms: the
//! driver's one-line result and the entry in a `run` result file.

use crate::json::Json;
use crate::spec::{self, MetricDef};

/// Metric values by name.  A metric a run never set has no value there (an
/// absent operation class, a probe that was skipped).
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            spec::metric(name).is_some(),
            "{name} is not in the metric tables"
        );
        debug_assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name, value));
    }

    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn extend(&mut self, other: Metrics) {
        other.0.into_iter().for_each(|(n, v)| self.set(n, v));
    }
}

#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct; empty when it is.
    pub problems: Vec<String>,
    pub metrics: Metrics,
    /// Quartile spread of the host-throughput windows inside the run.
    pub host_spread: Option<f64>,
    /// What `host_kops_per_s` had divided out: the median reading of the
    /// box's speed during the measured phase, and the wall-clock rate.
    pub box_speed: f64,
    pub wall_kops_per_s: f64,
    /// CPU the process was pinned to (simulator workloads).
    pub pinned_cpu: Option<usize>,
    pub stream_hash: u64,
    /// Operations of each class measured: lookups, writes, scans.
    pub samples: [u64; 3],
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    fn table(&self) -> &'static [MetricDef] {
        if self.traced {
            spec::PER_LAYER
        } else {
            spec::END_TO_END
        }
    }

    /// The contract's last line.  Every metric of the table is present; one
    /// without a value on this workload reads 0.
    pub fn driver_line(&self) -> String {
        let metrics = self.table().iter().map(|m| {
            let value = self.metrics.get(m.name).unwrap_or(0.0);
            (
                m.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_line()
    }

    /// `workload metric value unit`, one line per metric that has a value.
    pub fn text_rows(&self) -> String {
        self.table()
            .iter()
            .filter_map(|m| {
                let v = self.metrics.get(m.name)?;
                Some(format!("{} {} {} {}\n", self.workload, m.name, v, m.unit))
            })
            .collect()
    }

    /// The child-to-parent form `run` collects: the driver line's facts plus
    /// what only a result file carries.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .table()
            .iter()
            .map(|m| (m.name, Json::opt_num(self.metrics.get(m.name))));
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failed_op_ratio",
                Json::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            (
                "problems",
                Json::Arr(self.problems.iter().map(Json::str).collect()),
            ),
            ("pinned", Json::Bool(self.pinned_cpu.is_some())),
            (
                "pinned_cpu",
                Json::opt_num(self.pinned_cpu.map(|c| c as f64)),
            ),
            (
                "stream_hash",
                Json::str(format!("{:016x}", self.stream_hash)),
            ),
            ("host_spread", Json::opt_num(self.host_spread)),
            ("box_speed", Json::Num(self.box_speed)),
            ("wall_kops_per_s", Json::Num(self.wall_kops_per_s)),
            (
                "samples",
                Json::obj([
                    ("lookup", Json::Num(self.samples[0] as f64)),
                    ("write", Json::Num(self.samples[1] as f64)),
                    ("scan", Json::Num(self.samples[2] as f64)),
                ]),
            ),
            ("metrics", Json::obj(metrics)),
        ])
    }
}
