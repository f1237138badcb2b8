//! Command line: `bench run | compare | list | serve`.

use std::time::Duration;

use crate::outcome::Outcome;
use crate::{compare, gen, lifecycle, manifest, peel, socket, spec};

const USAGE: &str = "usage:
  bench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
            [--plant net:100us] [--out FILE]
      With --workload: run that workload in this process and print its
      result as the last line. Without: run every workload, untraced
      and then traced, each in a child process, and write one result
      file.
  bench compare A.json B.json
  bench list [--json]
  bench serve --data DIR        (internal: the server child process)";

/// Options of `bench run`.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Client-side delay added to every statement (`--plant net:…`).
    pub plant: Duration,
    pub out: Option<String>,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            workload: None,
            seed: gen::DEFAULT_SEED,
            seconds: f64::from(spec::RUN_SECONDS),
            trace: false,
            plant: Duration::ZERO,
            out: None,
        }
    }
}

fn parse_plant(v: &str) -> Result<Duration, String> {
    let us = v
        .strip_prefix("net:")
        .and_then(|d| d.strip_suffix("us"))
        .and_then(|n| n.parse::<u64>().ok())
        .ok_or_else(|| format!("--plant takes net:<N>us, got {v:?}"))?;
    Ok(Duration::from_micros(us))
}

pub fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut o = RunOpts::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => {
                o.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                o.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
                    .ok_or("--seconds takes a number in (0, 60]")?
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--plant" => o.plant = parse_plant(&value()?)?,
            "--out" => o.out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

/// Run one workload in this process.
pub fn run_workload(name: &str, o: &RunOpts) -> Result<Outcome, String> {
    if !spec::WORKLOADS.iter().any(|w| w.name == name) {
        return Err(format!("unknown workload {name}; try `bench list`"));
    }
    // One connection, one CPU; `mixed_rw` has two of each.
    if name != "mixed_rw" {
        crate::engine::pin_to_one_cpu()?;
    }
    match (name, o.trace) {
        ("open_recover", false) => lifecycle::run(o),
        (_, false) => socket::run(name, o),
        (_, true) => peel::run(name, o),
    }
}

pub fn main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|o| match o.workload.clone() {
            Some(w) => run_workload(&w, &o).and_then(|outcome| {
                outcome.write_file(&manifest::collect(&o, &[outcome.to_json()]))?;
                outcome.print();
                Ok(i32::from(!outcome.correct))
            }),
            None => crate::suite::run_all(&o),
        }),
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => Err(USAGE.to_string()),
        },
        Some("list") => {
            if args.get(1).map(String::as_str) == Some("--json") {
                print!("{}", spec::contract().render_pretty());
            } else {
                list();
            }
            Ok(0)
        }
        Some("serve") => match &args[1..] {
            [flag, dir] if flag == "--data" => crate::engine::serve(dir.as_ref()).map(|()| 0),
            _ => Err(USAGE.to_string()),
        },
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench: {e}");
            2
        }
    }
}

fn list() {
    println!("workloads");
    for w in &spec::WORKLOADS {
        println!("  {:<14} {}", w.name, w.why);
    }
    println!("end-to-end metrics");
    for m in &spec::END_TO_END {
        println!(
            "  {:<26} [{}, {} better, bound {}, judged on {}] {}",
            m.name,
            m.unit,
            m.better,
            m.bound,
            m.on.join(" "),
            m.what
        );
    }
    for m in &spec::EXACT {
        println!(
            "  {:<26} [{}, lower better, no increase, judged on {}] {}",
            m.name,
            m.unit,
            m.on.join(" "),
            m.what
        );
    }
    println!("per-layer metrics");
    for m in spec::PER_LAYER {
        println!(
            "  {:<40} [{}, {} better] {} -> {}",
            m.name, m.unit, m.better, m.from, m.moves
        );
    }
}
