//! The traced run (`--trace 1`): per-layer metrics.
//!
//! It measures the workload three ways in interleaved passes (plain, with
//! client spans, with the stack's own metrics registry on) to report the
//! tracing and metrics overheads, then replays the same inputs layer by
//! layer in-process, timing calls into each layer's public API from here,
//! so each layer's share can be subtracted out of the end-to-end numbers. Spans of the traced pass and
//! of every replay are written to `out/trace-<workload>-seed<seed>.tsv`.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use corrfuse_core::{Dataset, ScoringEngine, TripleId};
use corrfuse_net::{Client, Frame, Request, Response};
use corrfuse_serve::queue::Pop;
use corrfuse_serve::{ReplicationConfig, RouterConfig, ShardRouter, SubscriptionStart, TenantId};
use corrfuse_stream::{codec, Event, JournalWriter, RefitLevel, StreamSession};

use crate::inputs::{Inputs, Workload, N_SHARDS};
use crate::load::ZipfPick;
use crate::spans::{timed, SpanLog};
use crate::stack::{self, Stack};
use crate::stats::{median, quantile, supported_tail, Metrics};
use crate::{measure, Args, Extent, Variant};

/// Samples every replayed tail percentile aims for (ten beyond a p99).
const TAIL_SAMPLES: usize = 1010;
/// Longest a repeated replay keeps collecting samples.
const REPLAY_BUDGET: Duration = Duration::from_secs(6);
/// Label batches probed on a workload that carries no labels.
const LABEL_PROBES: usize = 200;

/// Run the traced measurement and every layer replay. Returns the per-layer
/// metrics, whether every check passed, and the operation counts.
pub fn run(
    args: &Args,
    inputs: &Inputs,
    scratch: &Path,
    out_dir: &Path,
) -> Result<(Metrics, bool, u64, u64), String> {
    let w = args.workload;
    let log = SpanLog::new();
    let variants = [
        Variant::PLAIN,
        Variant {
            log: Some(&log),
            with_metrics: false,
        },
        Variant {
            log: None,
            with_metrics: true,
        },
    ];
    let runs = measure(args, inputs, scratch, &variants, Extent::Shared)?;
    let [plain, traced, observed] = &runs[..] else {
        unreachable!("one run per variant")
    };
    // Overheads compare the median pass throughput of interleaved passes
    // of identical work; the plain passes' own spread says how large an
    // overhead the run can resolve.
    let rate = |x: &crate::Measured| median(&x.rates).ok_or("a run has no passes");
    let base = rate(plain)?;
    let overhead = |x: &crate::Measured| rate(x).map(|r| (base - r) / base * 100.0);
    let (lo, hi) = plain
        .rates
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &r| {
            (lo.min(r), hi.max(r))
        });
    let spread_pct = (hi - lo) / base * 100.0;
    let mut m = Metrics::default();
    for (name, x) in [
        ("trace.overhead_pct", traced),
        ("obs.metrics_overhead_pct", observed),
    ] {
        let pct = overhead(x)?;
        if pct.abs() <= spread_pct {
            eprintln!(
                "perfbench: {name} = {pct:.2} is within the plain passes' spread ({spread_pct:.2}%): unresolved"
            );
        }
        m.put(name, pct, "%");
    }
    m.put("trace.plain_spread_pct", spread_pct, "%");
    let totals = plain.last_stats.aggregate().totals;
    m.put("serve.rotations", totals.rotations as f64, "count");
    m.put("serve.batches", totals.batches as f64, "count");
    m.put(
        "serve.mean_batch_events",
        totals.mean_batch_events(),
        "events",
    );
    m.put(
        "serve.max_queue_depth",
        totals.max_queue_depth as f64,
        "count",
    );
    m.put("net.busy_retries", totals.rejected_messages as f64, "count");
    m.put("net.reconnects", plain.pooled.reconnects as f64, "count");

    let mut checks = Vec::new();
    let capture = capture(inputs, &log, &mut m, &mut checks)?;
    codec_and_frames(inputs, &log, &mut m);
    stream_layer(&capture, &log, &mut m, &mut checks)?;
    journal_layer(&capture, scratch, &log, &mut m)?;
    serve_layer(w, inputs, scratch, &log, &mut m)?;
    net_layer(
        w,
        inputs,
        &capture.hot_scores,
        scratch,
        args.seed,
        &log,
        &mut m,
        &mut checks,
    )?;
    replica_layer(w, inputs, scratch, args.seed, &log, &mut m, &mut checks)?;

    let path = out_dir.join(format!("trace-{}-seed{}.tsv", w.name(), args.seed));
    log.write(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        log.len(),
        path.display()
    );
    for c in &checks {
        eprintln!("perfbench: replay check failed: {c}");
    }
    let correct = checks.is_empty() && runs.iter().all(|r| r.correct);
    let attempted = runs.iter().map(|r| r.pooled.attempted).sum();
    let failed = runs.iter().map(|r| r.pooled.failed).sum();
    Ok((m, correct, attempted, failed))
}

/// Each shard's epoch-0 dataset, its committed batches as the shard applied
/// them, and its end-of-run state, captured from an in-process router.
struct Capture {
    seeds: Vec<Dataset>,
    batches: Vec<Vec<Vec<Event>>>,
    finals: Vec<(Dataset, Vec<f64>)>,
    /// The hottest tenant's final scores.
    hot_scores: Vec<f64>,
}

/// Run the workload through an in-process router with a replication tap
/// (outside every timer) to capture the shard-space batches; time the seed
/// fits on the epoch-0 snapshots (`core.seed_fit_ms`).
fn capture(
    inputs: &Inputs,
    log: &SpanLog,
    m: &mut Metrics,
    checks: &mut Vec<String>,
) -> Result<Capture, String> {
    let backlog = 1 << 17;
    let cfg = RouterConfig::new(N_SHARDS).with_replication(
        ReplicationConfig::new()
            .with_backlog_batches(backlog)
            .with_subscriber_capacity(backlog),
    );
    let router = ShardRouter::new(stack::fuser_config(), cfg, inputs.router_seeds())
        .map_err(|e| format!("capture router: {e}"))?;
    let mut seeds = Vec::with_capacity(N_SHARDS);
    for shard in 0..N_SHARDS {
        let snap = router.shard_snapshot(shard).map_err(|e| e.to_string())?;
        seeds.push((snap.dataset, snap.scores));
    }
    let req = log.id();
    let mut fit_ms = Vec::new();
    for _ in 0..3 {
        let mut total = 0.0;
        for (shard, (ds, served)) in seeds.iter().enumerate() {
            let (scores, secs) = timed(Some(log), "core.fit_score_all", 0, req, || {
                stack::fit_scores(ds)
            });
            if scores?
                .iter()
                .zip(served)
                .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                checks.push(format!(
                    "shard {shard}: epoch-0 fit differs from the served seed scores"
                ));
            }
            total += secs * 1e3;
        }
        fit_ms.push(total);
    }
    m.put_opt("core.seed_fit_ms", median(&fit_ms), "ms")?;

    for (tenant, events) in &inputs.messages {
        router
            .ingest(TenantId(*tenant), events.clone())
            .map_err(|e| format!("capture ingest: {e}"))?;
    }
    router.flush().map_err(|e| format!("capture flush: {e}"))?;
    let epochs = router.epochs();
    let mut batches = Vec::with_capacity(N_SHARDS);
    let mut finals = Vec::with_capacity(N_SHARDS);
    for (shard, &epoch) in epochs.iter().enumerate() {
        let (start, sub) = router
            .subscribe(shard, 0)
            .map_err(|e| format!("capture subscribe: {e}"))?;
        if start != SubscriptionStart::Resume {
            return Err(format!(
                "shard {shard}: capture backlog did not cover the run"
            ));
        }
        let mut shard_batches = Vec::with_capacity(epoch as usize);
        while (shard_batches.len() as u64) < epoch {
            match sub.recv_deadline(Some(Instant::now() + Duration::from_secs(10))) {
                Pop::Item(b) => {
                    let parsed =
                        codec::parse_batches(&b.text).map_err(|e| format!("capture parse: {e}"))?;
                    shard_batches.extend(parsed.batches);
                }
                Pop::TimedOut | Pop::Closed => {
                    return Err(format!("shard {shard}: capture stream ended early"))
                }
            }
        }
        batches.push(shard_batches);
        let snap = router.shard_snapshot(shard).map_err(|e| e.to_string())?;
        finals.push((snap.dataset, snap.scores));
    }
    let hot_scores = router.scores(TenantId(0)).map_err(|e| e.to_string())?;
    let stats = router
        .shutdown()
        .map_err(|e| format!("capture shutdown: {e}"))?;
    if stats.aggregate().totals.ingest_errors > 0 {
        checks.push("capture router reported ingest errors".into());
    }
    Ok(Capture {
        seeds: seeds.into_iter().map(|(ds, _)| ds).collect(),
        batches,
        finals,
        hot_scores,
    })
}

/// Stream codec and net framing costs per event, over every message.
fn codec_and_frames(inputs: &Inputs, log: &SpanLog, m: &mut Metrics) {
    let n = inputs.n_events() as f64;
    let per_event = |name: &'static str, f: &mut dyn FnMut()| -> f64 {
        let req = log.id();
        let reps: Vec<f64> = (0..3)
            .map(|_| timed(Some(log), name, 0, req, &mut *f).1 * 1e9 / n)
            .collect();
        median(&reps).expect("three repetitions")
    };
    let texts: Vec<String> = inputs
        .messages
        .iter()
        .map(|(_, e)| codec::encode_batch(e))
        .collect();
    m.put(
        "stream.codec_encode_ns_per_event",
        per_event("stream.encode_batch", &mut || {
            for (_, e) in &inputs.messages {
                black_box(codec::encode_batch(black_box(e)));
            }
        }),
        "ns",
    );
    m.put(
        "stream.codec_parse_ns_per_event",
        per_event("stream.parse_batch_lines", &mut || {
            for t in &texts {
                let lines = t.lines().enumerate().map(|(i, l)| (i + 1, l));
                black_box(codec::parse_batch_lines(black_box(lines)).expect("own encoding parses"));
            }
        }),
        "ns",
    );
    let frames: Vec<Vec<u8>> = inputs
        .messages
        .iter()
        .map(|(t, e)| Request::ingest_frame(TenantId(*t), e).encode())
        .collect();
    m.put(
        "net.frame_encode_ns_per_event",
        per_event("net.ingest_frame_encode", &mut || {
            for (t, e) in &inputs.messages {
                black_box(Request::ingest_frame(TenantId(*t), black_box(e)).encode());
            }
        }),
        "ns",
    );
    m.put(
        "net.frame_decode_ns_per_event",
        per_event("net.frame_decode", &mut || {
            for bytes in &frames {
                let (frame, _) = Frame::decode(black_box(bytes)).expect("own frame decodes");
                black_box(Request::from_frame(&frame).expect("own request decodes"));
            }
        }),
        "ns",
    );
}

/// One replayed batch: its refit level, apply time and rescore outcome.
struct Applied {
    refit: RefitLevel,
    apply_us: f64,
    rescored: usize,
    flips: usize,
    new_triples: usize,
}

/// Replay each shard's batches through `StreamSession::ingest` from its
/// epoch-0 dataset: apply time per refit level, rescore work and flips.
fn stream_layer(
    c: &Capture,
    log: &SpanLog,
    m: &mut Metrics,
    checks: &mut Vec<String>,
) -> Result<(), String> {
    let started = Instant::now();
    let mut applied = Vec::new();
    let mut first = true;
    loop {
        for shard in 0..N_SHARDS {
            let (session, rows) =
                replay_shard(&c.seeds[shard], c.batches[shard].iter().cloned(), log)?;
            if first && !stack::bitwise_eq(session.scores(), &c.finals[shard].1) {
                checks.push(format!(
                    "shard {shard}: stream replay differs from the served scores"
                ));
            }
            applied.extend(rows);
        }
        first = false;
        let model = applied
            .iter()
            .filter(|a| a.refit == RefitLevel::Model)
            .count();
        if model == 0 || model >= TAIL_SAMPLES || started.elapsed() >= REPLAY_BUDGET {
            break;
        }
    }
    let batches = applied.len() as f64;
    let rescored: usize = applied.iter().map(|a| a.rescored).sum();
    let flips: usize = applied.iter().map(|a| a.flips).sum();
    let new_triples: usize = applied.iter().map(|a| a.new_triples).sum();
    m.put(
        "stream.rescored_per_batch",
        rescored as f64 / batches,
        "triples",
    );
    m.put(
        "stream.rescored_per_new_triple",
        rescored as f64 / new_triples.max(1) as f64,
        "triples",
    );
    m.put(
        "stream.flips_per_rescored",
        flips as f64 / rescored.max(1) as f64,
        "ratio",
    );

    let of = |level: RefitLevel, rows: &[Applied]| -> Vec<f64> {
        rows.iter()
            .filter(|a| a.refit == level)
            .map(|a| a.apply_us)
            .collect()
    };
    let mut none = of(RefitLevel::None, &applied);
    if none.len() < 20 {
        // Label-heavy streams: the same batches without their labels give
        // the claim-only apply cost.
        for shard in 0..N_SHARDS {
            let stripped = c.batches[shard]
                .iter()
                .map(|b| {
                    b.iter()
                        .filter(|e| !matches!(e, Event::Label { .. }))
                        .cloned()
                        .collect::<Vec<_>>()
                })
                .filter(|b| !b.is_empty());
            none.extend(of(
                RefitLevel::None,
                &replay_shard(&c.seeds[shard], stripped, log)?.1,
            ));
        }
    }
    let mut model = of(RefitLevel::Model, &applied);
    if model.is_empty() {
        // Claim-only streams: label single streamed triples of the
        // end-of-run shards to time the model refresh at that size.
        for shard in 0..N_SHARDS {
            let seed_triples = c.seeds[shard].n_triples();
            let (mut session, _) =
                replay_shard(&c.seeds[shard], c.batches[shard].iter().cloned(), log)?;
            let streamed = session.dataset().n_triples() - seed_triples;
            for i in 0..LABEL_PROBES / N_SHARDS {
                let t = TripleId((seed_triples + i * streamed / (LABEL_PROBES / N_SHARDS)) as u32);
                let d = session
                    .ingest(&[Event::label(t, i % 2 == 0)])
                    .map_err(|e| format!("label probe: {e}"))?;
                model.push((d.elapsed_ns - d.journal_ns) as f64 / 1e3);
            }
        }
    }
    m.put_opt("stream.apply_none_us_p50", median(&none), "us")?;
    m.put_opt("stream.apply_model_us_p50", median(&model), "us")?;
    let (p99, q) = supported_tail(&model, 0.99).ok_or("too few model batches")?;
    if q < 0.99 {
        eprintln!(
            "perfbench: stream.apply_model_us_p99 holds the p{:.1} of {} batches",
            q * 100.0,
            model.len()
        );
    }
    m.put("stream.apply_model_us_p99", p99, "us");
    Ok(())
}

/// Replay `batches` into a fresh session on `seed`, one span per ingest.
fn replay_shard(
    seed: &Dataset,
    batches: impl Iterator<Item = Vec<Event>>,
    log: &SpanLog,
) -> Result<(StreamSession, Vec<Applied>), String> {
    let mut session =
        StreamSession::with_engine(stack::fuser_config(), seed.clone(), ScoringEngine::serial())
            .map_err(|e| format!("replay session: {e}"))?
            .with_threshold(RouterConfig::new(N_SHARDS).threshold);
    let mut rows = Vec::new();
    for batch in batches {
        let req = log.id();
        let (d, _) = timed(Some(log), "stream.ingest", 0, req, || {
            session.ingest(&batch)
        });
        let d = d.map_err(|e| format!("replay ingest: {e}"))?;
        rows.push(Applied {
            refit: d.refit,
            apply_us: (d.elapsed_ns - d.journal_ns) as f64 / 1e3,
            rescored: d.rescored.len(),
            flips: d.flips.len(),
            new_triples: batch
                .iter()
                .filter(|e| matches!(e, Event::AddTriple { .. }))
                .count(),
        });
    }
    Ok((session, rows))
}

/// `JournalWriter::append_batch` on every shard batch, and
/// `JournalWriter::rotate` of the largest end-of-run shard dataset.
fn journal_layer(
    c: &Capture,
    scratch: &Path,
    log: &SpanLog,
    m: &mut Metrics,
) -> Result<(), String> {
    let io = |e: corrfuse_core::FusionError| format!("journal replay: {e}");
    let mut append_us = Vec::new();
    let mut rotate_ms = Vec::new();
    let largest = (0..N_SHARDS)
        .max_by_key(|&s| c.finals[s].0.n_triples())
        .expect("shards exist");
    for shard in 0..N_SHARDS {
        let path = scratch.join(format!("replay-shard-{shard}.journal"));
        let mut writer = JournalWriter::create(&path, &c.seeds[shard]).map_err(io)?;
        let req = log.id();
        for b in &c.batches[shard] {
            let (r, secs) = timed(Some(log), "stream.journal_append", 0, req, || {
                writer.append_batch(b)
            });
            r.map_err(io)?;
            append_us.push(secs * 1e6);
        }
        if shard == largest {
            for _ in 0..3 {
                let (r, secs) = timed(Some(log), "stream.journal_rotate", 0, req, || {
                    writer.rotate(&c.finals[shard].0)
                });
                r.map_err(io)?;
                rotate_ms.push(secs * 1e3);
            }
        }
        std::fs::remove_file(&path).ok();
    }
    m.put_opt("stream.journal_append_us_p50", median(&append_us), "us")?;
    m.put_opt("stream.rotate_ms", median(&rotate_ms), "ms")?;
    Ok(())
}

/// In-process `ShardRouter` with the workload's configuration: the enqueue
/// cost and single-thread throughput of the whole stream, then
/// ingest + flush per message (the verdict without the network).
fn serve_layer(
    w: Workload,
    inputs: &Inputs,
    scratch: &Path,
    log: &SpanLog,
    m: &mut Metrics,
) -> Result<(), String> {
    let router = ShardRouter::new(
        stack::fuser_config(),
        stack::router_config(w, &scratch.join("serve-bulk"), None),
        inputs.router_seeds(),
    )
    .map_err(|e| format!("serve router: {e}"))?;
    let mut enqueue_us = Vec::with_capacity(inputs.messages.len());
    let start = Instant::now();
    for (tenant, events) in &inputs.messages {
        let events = events.clone();
        let req = log.id();
        let (r, secs) = timed(Some(log), "serve.ingest", 0, req, || {
            router.ingest(TenantId(*tenant), events)
        });
        r.map_err(|e| format!("serve ingest: {e}"))?;
        enqueue_us.push(secs * 1e6);
    }
    router.flush().map_err(|e| format!("serve flush: {e}"))?;
    let elapsed = start.elapsed().as_secs_f64();
    router
        .shutdown()
        .map_err(|e| format!("serve shutdown: {e}"))?;
    m.put_opt("serve.enqueue_us_p50", median(&enqueue_us), "us")?;
    m.put(
        "serve.inproc_events_per_s",
        inputs.n_events() as f64 / elapsed,
        "events/s",
    );

    let router = ShardRouter::new(
        stack::fuser_config(),
        stack::router_config(w, &scratch.join("serve-verdict"), None),
        inputs.router_seeds(),
    )
    .map_err(|e| format!("serve router: {e}"))?;
    let mut verdict_ms = Vec::with_capacity(inputs.messages.len());
    for (tenant, events) in &inputs.messages {
        let events = events.clone();
        let req = log.id();
        let (r, secs) = timed(Some(log), "serve.ingest_flush", 0, req, || {
            router
                .ingest(TenantId(*tenant), events)
                .and_then(|()| router.flush())
        });
        r.map_err(|e| format!("serve verdict: {e}"))?;
        verdict_ms.push(secs * 1e3);
    }
    router
        .shutdown()
        .map_err(|e| format!("serve shutdown: {e}"))?;
    let verdict = median(&verdict_ms).ok_or("no in-process verdicts")?;
    m.put("serve.inproc_verdict_ms", verdict, "ms");
    // Queue wait plus batch assembly: the in-process verdict less the apply
    // of the refit level the workload's batches mostly take.
    let apply_us = match w {
        Workload::ClaimsBulk => m.get("stream.apply_none_us_p50"),
        _ => m.get("stream.apply_model_us_p50"),
    };
    m.put(
        "serve.batch_wait_ms",
        verdict - apply_us.ok_or("stream layer runs first")? / 1e3,
        "ms",
    );
    std::fs::remove_dir_all(scratch.join("serve-bulk")).ok();
    std::fs::remove_dir_all(scratch.join("serve-verdict")).ok();
    Ok(())
}

/// The workload's stack over TCP: INGEST + sync per message against the
/// in-process enqueue, DECISIONS over the wire against in-process reads of
/// the same state, and the SCORES_OK encode of the hottest tenant.
#[allow(clippy::too_many_arguments)]
fn net_layer(
    w: Workload,
    inputs: &Inputs,
    hot_scores: &[f64],
    scratch: &Path,
    seed: u64,
    log: &SpanLog,
    m: &mut Metrics,
    checks: &mut Vec<String>,
) -> Result<(), String> {
    let cfg = stack::router_config(w, &scratch.join("net"), None);
    let stack = Stack::up(cfg, inputs.router_seeds(), None)?;
    let mut client = Client::connect(&stack.addr).map_err(|e| format!("net connect: {e}"))?;
    let mut ingest_us = Vec::with_capacity(inputs.messages.len());
    for (tenant, events) in &inputs.messages {
        let req = log.id();
        let (r, secs) = timed(Some(log), "net.ingest_sync", 0, req, || {
            client
                .ingest(TenantId(*tenant), events)
                .and_then(|()| client.sync())
        });
        r.map_err(|e| format!("net ingest: {e}"))?;
        ingest_us.push(secs * 1e6);
    }
    client.flush().map_err(|e| format!("net flush: {e}"))?;
    let (inproc_us, wire_us) = paired_reads(
        inputs,
        seed,
        log,
        "serve.decisions",
        "net.decisions",
        |t| {
            stack
                .router
                .decisions(t)
                .map(drop)
                .map_err(|e| e.to_string())
        },
        |t| client.decisions(t).map(drop).map_err(|e| e.to_string()),
        || true,
    )?;
    if let Err(e) = stack.gate(inputs) {
        checks.push(format!("net replay: {e}"));
    }
    drop(client);
    stack.down()?;
    let enqueue = m
        .get("serve.enqueue_us_p50")
        .ok_or("serve layer runs first")?;
    m.put(
        "net.ingest_overhead_us",
        median(&ingest_us).ok_or("no net ingests")? - enqueue,
        "us",
    );
    m.put_opt("serve.read_us_p50", median(&inproc_us), "us")?;
    m.put_opt("serve.read_us_p99", quantile(&inproc_us, 0.99), "us")?;
    m.put(
        "net.read_overhead_us",
        median(&wire_us).ok_or("no wire reads")? - median(&inproc_us).ok_or("no reads")?,
        "us",
    );

    let response = Response::ScoresOk {
        scores: hot_scores.to_vec(),
    };
    let req = log.id();
    let encode_us: Vec<f64> = (0..51)
        .map(|_| {
            timed(Some(log), "net.scores_ok_encode", 0, req, || {
                black_box(response.to_frame().encode())
            })
            .1 * 1e6
        })
        .collect();
    m.put_opt("net.scores_encode_us", median(&encode_us), "us")?;
    Ok(())
}

/// A follower bootstrapped against a replicated leader, read in-process and
/// over its server while a writer replays the stream into the leader.
fn replica_layer(
    w: Workload,
    inputs: &Inputs,
    scratch: &Path,
    seed: u64,
    log: &SpanLog,
    m: &mut Metrics,
    checks: &mut Vec<String>,
) -> Result<(), String> {
    let cfg = stack::router_config(w, &scratch.join("replica"), None)
        .with_replication(ReplicationConfig::new());
    let mut stack = Stack::up(cfg, inputs.router_seeds(), None)?;
    let bootstrap_s = stack.attach_follower()?;
    m.put("replica.bootstrap_ms", bootstrap_s * 1e3, "ms");
    let side = stack.follower.as_ref().expect("follower attached");
    let writer_done = AtomicBool::new(false);
    let (lag_ms, reads) = std::thread::scope(|s| {
        let writer = s.spawn(|| -> Result<Vec<f64>, String> {
            let result = replica_writer(&stack, inputs, log);
            writer_done.store(true, Ordering::SeqCst);
            result
        });
        let mut reader = Client::connect(&side.addr).map_err(|e| format!("replica reader: {e}"));
        let reads = reader.as_mut().map_err(|e| e.clone()).and_then(|r| {
            let stop = || writer_done.load(Ordering::SeqCst);
            paired_reads(
                inputs,
                seed,
                log,
                "replica.scores",
                "follower.scores",
                |t| side.follower.scores(t).map(drop).map_err(|e| e.to_string()),
                |t| r.scores(t).map(drop).map_err(|e| e.to_string()),
                stop,
            )
        });
        let lag = writer.join().expect("replica writer thread");
        (lag, reads)
    });
    let (lag_ms, (inproc_us, wire_us)) = (lag_ms?, reads?);
    if let Err(e) = stack.gate(inputs) {
        checks.push(format!("replica replay: {e}"));
    }
    let applied: u64 = side
        .follower
        .stats()
        .shards
        .iter()
        .map(|s| s.batches_applied)
        .sum();
    stack.down()?;
    m.put_opt("replica.read_inproc_us_p50", median(&inproc_us), "us")?;
    m.put_opt(
        "replica.read_inproc_us_p99",
        quantile(&inproc_us, 0.99),
        "us",
    )?;
    m.put(
        "replica.server_overhead_us",
        median(&wire_us).ok_or("no wire reads")? - median(&inproc_us).ok_or("no reads")?,
        "us",
    );
    m.put_opt("replica.lag_ms_p50", median(&lag_ms), "ms")?;
    m.put("replica.applied_batches", applied as f64, "count");
    Ok(())
}

/// Write the stream into the leader one message at a time (for at most the
/// replay budget) and time how long each acknowledged FLUSH takes to become
/// readable on the follower at the leader's epoch.
fn replica_writer(stack: &Stack, inputs: &Inputs, log: &SpanLog) -> Result<Vec<f64>, String> {
    let follower = &stack.follower.as_ref().expect("follower attached").follower;
    let mut client = Client::connect(&stack.addr).map_err(|e| format!("replica writer: {e}"))?;
    let started = Instant::now();
    let mut lag_ms = Vec::new();
    for (tenant, events) in &inputs.messages {
        if started.elapsed() >= REPLAY_BUDGET {
            break;
        }
        let tenant = TenantId(*tenant);
        client
            .ingest(tenant, events)
            .and_then(|()| client.flush())
            .map_err(|e| format!("replica write: {e}"))?;
        let epoch = stack.router.epochs()[tenant.0 as usize % N_SHARDS];
        let req = log.id();
        let (r, secs) = timed(Some(log), "replica.catch_up", 0, req, || {
            follower.scores_at(tenant, epoch)
        });
        r.map_err(|e| format!("replica catch-up: {e}"))?;
        lag_ms.push(secs * 1e3);
    }
    Ok(lag_ms)
}

/// Alternate an in-process and a wire read of the same Zipf-drawn tenant
/// until each has `TAIL_SAMPLES` samples and `done()` holds.
#[allow(clippy::too_many_arguments)]
fn paired_reads(
    inputs: &Inputs,
    seed: u64,
    log: &SpanLog,
    inproc_name: &'static str,
    wire_name: &'static str,
    mut inproc: impl FnMut(TenantId) -> Result<(), String>,
    mut wire: impl FnMut(TenantId) -> Result<(), String>,
    done: impl Fn() -> bool,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let mut pick = ZipfPick::new(&inputs.read_weights, seed);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    while a.len() < TAIL_SAMPLES || !done() {
        let t = TenantId(pick.next() as u32);
        let req = log.id();
        let (r, secs) = timed(Some(log), inproc_name, 0, req, || inproc(t));
        r?;
        a.push(secs * 1e6);
        let (r, secs) = timed(Some(log), wire_name, 0, req, || wire(t));
        r?;
        b.push(secs * 1e6);
    }
    Ok((a, b))
}
