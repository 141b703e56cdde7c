//! The corrfuse benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload labels_verdict --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Generates the workload from `--seed`, then runs passes against fresh
//! loopback stacks until `--seconds` of load have been measured, checks
//! every pass against a from-scratch fit, and prints one JSON line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of the traced
//! run with `--trace 1`. RATIONALE.md explains the workloads and metrics.

mod inputs;
mod load;
mod spans;
mod stack;
mod stats;
mod trace;

use std::path::Path;
use std::time::{Duration, Instant};

use corrfuse_obs::Registry;
use corrfuse_serve::stats::RouterStats;

use crate::inputs::{Inputs, Workload};
use crate::load::PassOut;
use crate::spans::SpanLog;
use crate::stack::Stack;
use crate::stats::{median, quantile, Metrics};

/// Validated command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|_| "--seed takes an integer")?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    })
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let t = Instant::now();
    let inputs = inputs::generate(args.workload, args.seed)?;
    eprintln!(
        "perfbench: {} seed {}: {} messages, {} events generated in {:.2}s",
        args.workload.name(),
        args.seed,
        inputs.messages.len(),
        inputs.n_events(),
        t.elapsed().as_secs_f64()
    );
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let scratch = out_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let result = if args.trace {
        trace::run(&args, &inputs, &scratch, &out_dir)
    } else {
        measure(&args, &inputs, &scratch, &[Variant::PLAIN], Extent::Full).and_then(|mut runs| {
            let m = runs.pop().expect("one variant");
            Ok((m.metrics()?, m.correct, m.pooled.attempted, m.pooled.failed))
        })
    };
    std::fs::remove_dir_all(&scratch).ok();
    let (metrics, correct, attempted, failed) = result?;
    for (name, value, unit) in metrics.iter() {
        eprintln!("  {name:<36} {value:>16.4} {unit}");
    }
    metrics.to_json(correct, attempted, failed)
}

/// Everything one measurement (a sequence of passes) produced.
pub struct Measured {
    /// Every timed set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Events per second of each pass.
    pub rates: Vec<f64>,
    /// Read p50 and p99 of each pass. A pass's 1000 reads support its own
    /// p99, and the median over passes keeps one stalled pass from
    /// deciding the run's read tail.
    pub read_p50_us: Vec<f64>,
    pub read_p99_us: Vec<f64>,
    /// The pooled samples and counts of every pass.
    pub pooled: PassOut,
    /// Every pass passed the correctness gate.
    pub correct: bool,
    /// The leader's statistics at the end of the last pass.
    pub last_stats: RouterStats,
    /// The process's high-water RSS once the first pass was gated: the
    /// inputs plus one live stack. Later passes only add allocator reuse
    /// noise, so they are left out.
    pub peak_rss_mb: f64,
}

impl Measured {
    /// The end-to-end metrics.
    pub fn metrics(&self) -> Result<Metrics, String> {
        let p = &self.pooled;
        let mut m = Metrics::default();
        m.put_opt("setup_s", median(&self.setup_s), "s")?;
        m.put_opt("ingest_events_per_s", median(&self.rates), "events/s")?;
        m.put_opt("verdict_p50_ms", quantile(&p.verdict_ms, 0.5), "ms")?;
        m.put_opt("verdict_p99_ms", quantile(&p.verdict_ms, 0.99), "ms")?;
        m.put_opt("read_p50_us", median(&self.read_p50_us), "us")?;
        m.put_opt("read_p99_us", median(&self.read_p99_us), "us")?;
        m.put("peak_rss_mb", self.peak_rss_mb, "MiB");
        Ok(m)
    }
}

/// Set-ups timed per pass; every one but the last is torn down unloaded.
const SETUPS_PER_PASS: usize = 3;

/// How a pass is instrumented.
#[derive(Debug, Clone, Copy)]
pub struct Variant<'a> {
    /// Record client spans into this log.
    pub log: Option<&'a SpanLog>,
    /// Turn the stack's metrics registry on.
    pub with_metrics: bool,
}

impl Variant<'static> {
    /// No spans, no metrics registry: the measured configuration.
    pub const PLAIN: Variant<'static> = Variant {
        log: None,
        with_metrics: false,
    };
}

/// How long [`measure`] keeps running passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extent {
    /// `--seconds` of load for the (single) variant over at least three
    /// passes, and ten samples beyond every reported tail percentile.
    Full,
    /// `--seconds` of load shared by all variants, at least two passes each:
    /// enough for the medians the traced run compares.
    Shared,
}

/// Run passes, each on a freshly set-up stack, cycling through `variants`
/// one pass each per round, until `extent` is reached at the end of a
/// round. Interleaving gives every variant the same passes under the same
/// host conditions. Every pass is checked by the correctness gate. Returns
/// one [`Measured`] per variant, in order.
pub fn measure(
    args: &Args,
    inputs: &Inputs,
    scratch: &Path,
    variants: &[Variant],
    extent: Extent,
) -> Result<Vec<Measured>, String> {
    let w = args.workload;
    let hard_stop = Instant::now() + Duration::from_secs_f64(args.seconds * 4.0 + 60.0);
    let mut runs: Vec<Measured> = variants
        .iter()
        .map(|_| Measured {
            setup_s: Vec::new(),
            rates: Vec::new(),
            read_p50_us: Vec::new(),
            read_p99_us: Vec::new(),
            pooled: PassOut::default(),
            correct: true,
            last_stats: RouterStats { shards: Vec::new() },
            peak_rss_mb: 0.0,
        })
        .collect();
    let mut pass = 0u64;
    loop {
        for (v, m) in variants.iter().zip(runs.iter_mut()) {
            let registry = v.with_metrics.then(|| std::sync::Arc::new(Registry::new()));
            let journal_dir = scratch.join(format!("pass-{pass}"));
            // Single set-ups vary by a quarter around their median, so
            // each pass times several and keeps the last stack for its load.
            let mut last = None;
            for _ in 0..SETUPS_PER_PASS {
                if let Some(s) = last.take() {
                    Stack::down(s)?;
                }
                let seeds = inputs.router_seeds();
                let cfg = stack::router_config(w, &journal_dir, registry.as_ref());
                let t = Instant::now();
                last = Some(Stack::up(cfg, seeds, registry.as_ref())?);
                m.setup_s.push(t.elapsed().as_secs_f64());
            }
            let stack = last.expect("at least one set-up per pass");
            let out = load::run_pass(w, &stack, inputs, args.seed.wrapping_add(pass), v.log);
            m.rates.push(out.events as f64 / out.elapsed_s);
            m.read_p50_us.extend(quantile(&out.read_us, 0.5));
            m.read_p99_us.extend(quantile(&out.read_us, 0.99));
            if let Err(e) = stack.gate(inputs) {
                eprintln!("perfbench: pass {pass}: correctness gate failed: {e}");
                m.correct = false;
            }
            if m.rates.len() == 1 {
                m.peak_rss_mb = stats::peak_rss_mb();
            }
            m.last_stats = stack.down()?;
            m.pooled.merge(out);
            pass += 1;
        }
        let enough = match extent {
            Extent::Full => runs.iter().all(|m| {
                let p = &m.pooled;
                p.elapsed_s >= args.seconds
                    && m.rates.len() >= 3
                    && p.verdict_ms.len() >= 1000
                    && p.read_us.len() >= 1000
            }),
            Extent::Shared => {
                runs.iter().map(|m| m.pooled.elapsed_s).sum::<f64>() >= args.seconds
                    && runs.iter().all(|m| m.rates.len() >= 2)
            }
        };
        if enough || Instant::now() >= hard_stop {
            break;
        }
    }
    for m in &mut runs {
        m.correct &= m.pooled.failed == 0;
        let last = m.last_stats.aggregate().totals;
        eprintln!(
            "perfbench: {} passes, {} set-ups, {:.2}s of load, {} verdicts, {} reads; last pass: {} batches, {} rotations, {:.0} events per batch",
            m.rates.len(),
            m.setup_s.len(),
            m.pooled.elapsed_s,
            m.pooled.verdict_ms.len(),
            m.pooled.read_us.len(),
            last.batches,
            last.rotations,
            last.mean_batch_events()
        );
    }
    Ok(runs)
}
