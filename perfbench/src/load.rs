//! The measured load of one pass: each workload's clients against a fresh
//! stack, timed from the client side.

use std::sync::Barrier;
use std::time::Instant;

use corrfuse_core::rng::StdRng;
use corrfuse_net::Client;
use corrfuse_serve::TenantId;
use corrfuse_stream::Event;

use crate::inputs::{Inputs, Workload, N_SHARDS};
use crate::spans::{timed, SpanLog};
use crate::stack::Stack;

/// Messages each `claims_bulk` connection pipelines before its FLUSH.
pub const BULK_ROUND: usize = 2;
/// DECISIONS reads timed on the loaded leader after each pass's writes:
/// enough for ten samples beyond the pass's own p99.
const READS_AT_REST: usize = 1000;

/// What one pass measured.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Events acknowledged and applied.
    pub events: u64,
    /// From the first send to the last FLUSH_OK (or reply), in seconds.
    pub elapsed_s: f64,
    /// First INGEST send -> FLUSH_OK -> DECISIONS reply, per write round.
    pub verdict_ms: Vec<f64>,
    /// One read round trip.
    pub read_us: Vec<f64>,
    /// Operations (write rounds and reads) attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Client reconnects.
    pub reconnects: u64,
}

impl PassOut {
    /// Fold `other` into `self` (sample lists concatenate, counts add).
    pub fn merge(&mut self, other: PassOut) {
        self.events += other.events;
        self.elapsed_s += other.elapsed_s;
        self.verdict_ms.extend(other.verdict_ms);
        self.read_us.extend(other.read_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reconnects += other.reconnects;
    }
}

/// Run `workload`'s writes once against `stack`, then time reads of the
/// loaded, idle leader. The DECISIONS that close each write round count
/// towards its verdict only: a write round yields a single read, too few
/// for a steady read tail.
pub fn run_pass(
    workload: Workload,
    stack: &Stack,
    inputs: &Inputs,
    seed: u64,
    log: Option<&SpanLog>,
) -> PassOut {
    let mut out = match workload {
        Workload::ClaimsBulk => claims_bulk(stack, inputs, log),
        Workload::LabelsVerdict => labels_verdict(stack, inputs, log),
    };
    out.merge(reads_at_rest(stack, inputs, seed, log));
    out
}

/// Two pipelined connections, one per shard's tenants, each sending
/// rounds of `BULK_ROUND` messages closed by FLUSH and a DECISIONS read.
fn claims_bulk(stack: &Stack, inputs: &Inputs, log: Option<&SpanLog>) -> PassOut {
    let barrier = Barrier::new(N_SHARDS + 1);
    std::thread::scope(|s| {
        let writers: Vec<_> = (0..N_SHARDS)
            .map(|k| {
                let msgs: Vec<&(u32, Vec<Event>)> = inputs
                    .messages
                    .iter()
                    .filter(|(t, _)| *t as usize % N_SHARDS == k)
                    .collect();
                let barrier = &barrier;
                s.spawn(move || {
                    let client = Client::connect(&stack.addr);
                    barrier.wait();
                    let mut out = PassOut::default();
                    match client {
                        Ok(mut c) => {
                            for round in msgs.chunks(BULK_ROUND) {
                                write_round(&mut c, round, &mut out, log);
                            }
                            out.reconnects = c.reconnects();
                        }
                        Err(_) => {
                            out.attempted = msgs.len().div_ceil(BULK_ROUND) as u64;
                            out.failed = out.attempted;
                        }
                    }
                    (out, Instant::now())
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let mut total = PassOut::default();
        let mut end = start;
        for w in writers {
            let (out, done) = w.join().expect("bulk writer thread");
            end = end.max(done);
            total.merge(out);
        }
        total.elapsed_s = (end - start).as_secs_f64();
        total
    })
}

/// `READS_AT_REST` closed-loop DECISIONS reads of Zipf-drawn tenants.
fn reads_at_rest(stack: &Stack, inputs: &Inputs, seed: u64, log: Option<&SpanLog>) -> PassOut {
    let mut out = PassOut::default();
    let Ok(mut client) = Client::connect(&stack.addr) else {
        out.attempted = READS_AT_REST as u64;
        out.failed = out.attempted;
        return out;
    };
    let mut pick = ZipfPick::new(&inputs.read_weights, seed);
    for _ in 0..READS_AT_REST {
        let tenant = TenantId(pick.next() as u32);
        let req = log.map_or(0, SpanLog::id);
        let (res, secs) = timed(log, "net.decisions", 0, req, || client.decisions(tenant));
        out.attempted += 1;
        match res {
            Ok(_) => out.read_us.push(secs * 1e6),
            Err(_) => out.failed += 1,
        }
    }
    out.reconnects = client.reconnects();
    out
}

/// One connection, one message per round: INGEST -> FLUSH -> DECISIONS.
fn labels_verdict(stack: &Stack, inputs: &Inputs, log: Option<&SpanLog>) -> PassOut {
    let mut out = PassOut::default();
    let Ok(mut client) = Client::connect(&stack.addr) else {
        out.attempted = inputs.messages.len() as u64;
        out.failed = out.attempted;
        return out;
    };
    let start = Instant::now();
    for m in &inputs.messages {
        write_round(&mut client, std::slice::from_ref(&m), &mut out, log);
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out.reconnects = client.reconnects();
    out
}

/// One write round: pipeline `msgs`, FLUSH, then read the last tenant's
/// DECISIONS. The verdict runs from the first send to the DECISIONS reply.
fn write_round(
    client: &mut Client,
    msgs: &[&(u32, Vec<Event>)],
    out: &mut PassOut,
    log: Option<&SpanLog>,
) {
    let req = log.map_or(0, SpanLog::id);
    let root = log.map_or(0, SpanLog::id);
    let t0 = Instant::now();
    let mut ok = true;
    for (tenant, events) in msgs {
        let (res, _) = timed(log, "net.ingest", root, req, || {
            client.ingest(TenantId(*tenant), events)
        });
        ok &= res.is_ok();
    }
    let (res, _) = timed(log, "net.flush", root, req, || client.flush());
    ok &= res.is_ok();
    let tenant = TenantId(msgs.last().expect("rounds are non-empty").0);
    let (res, _) = timed(log, "net.decisions", root, req, || client.decisions(tenant));
    ok &= res.is_ok();
    let end = Instant::now();
    if let Some(l) = log {
        l.record(root, "round", t0, end, 0, req);
    }
    out.attempted += 1;
    if ok {
        out.events += msgs.iter().map(|(_, e)| e.len() as u64).sum::<u64>();
        out.verdict_ms.push((end - t0).as_secs_f64() * 1e3);
    } else {
        out.failed += 1;
    }
}

/// Draws tenants with probability proportional to their read weight.
pub struct ZipfPick {
    cumulative: Vec<f64>,
    rng: StdRng,
}

impl ZipfPick {
    /// A seeded picker over `weights`.
    pub fn new(weights: &[f64], seed: u64) -> ZipfPick {
        let cumulative = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w;
                Some(*acc)
            })
            .collect();
        ZipfPick {
            cumulative,
            rng: StdRng::seed_from_u64(seed ^ 0x7a69_7066),
        }
    }

    /// The next tenant index.
    pub fn next(&mut self) -> usize {
        let total = *self.cumulative.last().expect("at least one tenant");
        let x = self.rng.gen_f64() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}
