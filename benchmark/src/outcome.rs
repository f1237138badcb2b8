//! What one run of one workload produced, and how it is shown: every
//! metric by name with its unit, a result file, and the one-line JSON
//! result the driver reads.

use std::path::PathBuf;

use crate::engine;
use crate::json::Json;
use crate::spec;

/// A property the run checks about itself: answers, final state, span
/// arithmetic, layer separation. A failed check makes the run incorrect.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub pass: bool,
    pub detail: String,
}

#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every metric of the mode (`end_to_end` untraced, `per_layer`
    /// traced), in `spec` order.
    pub metrics: Vec<(&'static str, f64)>,
    /// `(max − min) / median` of every end-to-end metric across the
    /// run's five windows, or its repetitions folded into fifths.
    pub spreads: Vec<(&'static str, f64)>,
    /// The counts of `spec::EXACT` that apply to the workload.
    pub exact: Vec<(&'static str, f64)>,
    /// Failed ops by kind.
    pub fails: Vec<(String, u64)>,
    pub checks: Vec<Check>,
    /// Free-form facts for the result file (timed-op counts, per-class
    /// latencies, level timings).
    pub detail: Vec<(String, Json)>,
    pub correct: bool,
}

impl Outcome {
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Outcome {
        Outcome {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            spreads: Vec::new(),
            exact: Vec::new(),
            fails: Vec::new(),
            checks: Vec::new(),
            detail: Vec::new(),
            correct: true,
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(m) => m.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Set a windowed or repeated metric: its value, and the spread of
    /// the window values it was taken over.
    pub fn set_with_spread(&mut self, name: &'static str, value: f64, windows: &[f64]) {
        self.set(name, value);
        self.spreads.push((name, crate::summary::spread(windows)));
    }

    pub fn check(&mut self, name: &str, pass: bool, detail: String) {
        self.correct &= pass;
        self.checks.push(Check {
            name: name.to_string(),
            pass,
            detail,
        });
    }

    /// Put the metrics in `spec` order, every name present: a per-layer
    /// metric that does not apply to the workload reads 0. Failed ops
    /// become `fail_ratio` and make the run incorrect.
    pub fn finish(&mut self) {
        let names: Vec<&'static str> = if self.trace {
            spec::PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            spec::END_TO_END.iter().map(|m| m.name).collect()
        };
        let ordered = names.iter().map(|n| (*n, self.get(n))).collect();
        self.metrics = ordered;
        self.exact.insert(
            0,
            (
                "fail_ratio",
                self.failed as f64 / self.attempted.max(1) as f64,
            ),
        );
        self.correct &= self.failed == 0;
    }

    /// The one line the driver reads.
    pub fn driver_line(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(n, v)| {
                            (
                                n.to_string(),
                                Json::obj(vec![
                                    ("value", Json::Num(*v)),
                                    ("unit", Json::str(spec::unit_of(n))),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn to_json(&self) -> Json {
        let pairs = |v: &[(&'static str, f64)]| {
            Json::Obj(
                v.iter()
                    .map(|(n, x)| (n.to_string(), Json::Num(*x)))
                    .collect(),
            )
        };
        let mut fields = vec![
            ("workload", Json::str(self.workload.as_str())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("trace", Json::Bool(self.trace)),
            // One CPU where the run pinned itself.
            ("cpus", Json::str(engine::cpus_allowed())),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failed_by_kind",
                Json::Obj(
                    self.fails
                        .iter()
                        .map(|(k, n)| (k.clone(), Json::Num(*n as f64)))
                        .collect(),
                ),
            ),
            ("metrics", pairs(&self.metrics)),
            ("spread", pairs(&self.spreads)),
            ("exact", pairs(&self.exact)),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("name", Json::str(c.name.as_str())),
                                ("pass", Json::Bool(c.pass)),
                                ("detail", Json::str(c.detail.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        let detail = Json::Obj(self.detail.clone());
        fields.push(("detail", detail));
        Json::obj(fields)
    }

    pub fn file_path(&self) -> PathBuf {
        engine::out_dir().join(format!(
            "result-{}-trace{}.json",
            self.workload,
            u8::from(self.trace)
        ))
    }

    /// Write `benchmark/out/result-<workload>-trace<0|1>.json`.
    pub fn write_file(&self, manifest: &Json) -> Result<(), String> {
        let path = self.file_path();
        std::fs::create_dir_all(engine::out_dir()).map_err(|e| e.to_string())?;
        let file = Json::obj(vec![
            ("manifest", manifest.clone()),
            ("result", self.to_json()),
        ]);
        std::fs::write(&path, file.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Every metric by name with its unit, then checks and failures,
    /// then the driver's line last.
    pub fn print(&self) {
        println!(
            "# {} seed={} seconds={} trace={}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace)
        );
        for (name, value) in &self.metrics {
            let spread = self
                .spreads
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| format!("  spread {:.3}", s))
                .unwrap_or_default();
            println!("{name:<40} {value:>16.4} {}{spread}", spec::unit_of(name));
        }
        for (name, value) in &self.exact {
            println!("{name:<40} {value:>16.4} {}", spec::unit_of(name));
        }
        for c in &self.checks {
            println!(
                "check {:<44} {}  {}",
                c.name,
                if c.pass { "ok" } else { "FAILED" },
                c.detail
            );
        }
        println!(
            "ops attempted {} failed {}{}",
            self.attempted,
            self.failed,
            self.fails
                .iter()
                .map(|(k, n)| format!(" {k}={n}"))
                .collect::<String>()
        );
        println!("{}", self.driver_line().render());
    }
}
