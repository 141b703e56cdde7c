//! Seeded workload generation. Everything here runs before the first
//! timer starts; the stack only ever sees the generated seeds and events.

use corrfuse_core::rng::StdRng;
use corrfuse_core::Dataset;
use corrfuse_serve::TenantId;
use corrfuse_stream::Event;
use corrfuse_synth::{
    event_stream, GroupKind, GroupSpec, Polarity, SourceSpec, StreamSpec, SynthSpec,
};

/// Tenants per workload; their world sizes follow a Zipf law.
pub const N_TENANTS: usize = 16;
/// Shards of the leader router (tenant `t` lives on shard `t % N_SHARDS`).
pub const N_SHARDS: usize = 2;
/// Zipf exponent of the tenant world sizes.
const SKEW: f64 = 1.0;

/// The benchmark's workloads (see RATIONALE.md for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Claim-only bulk ingest on two pipelined connections, journal on.
    ClaimsBulk,
    /// Small label-bearing batches, each waited on until its verdict.
    LabelsVerdict,
}

impl Workload {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "claims_bulk" => Some(Workload::ClaimsBulk),
            "labels_verdict" => Some(Workload::LabelsVerdict),
            _ => None,
        }
    }

    /// The workload's name, as `--workload` takes it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClaimsBulk => "claims_bulk",
            Workload::LabelsVerdict => "labels_verdict",
        }
    }

    fn shape(self) -> Shape {
        match self {
            Workload::ClaimsBulk => Shape {
                n_sources: 6,
                triples_largest: 75_000,
                seed_fraction: 0.3,
                triples_per_batch: 200,
                label_fraction: 0.0,
                balanced: false,
            },
            Workload::LabelsVerdict => Shape {
                n_sources: 8,
                triples_largest: 10_000,
                seed_fraction: 0.925,
                triples_per_batch: 10,
                label_fraction: 0.5,
                balanced: true,
            },
        }
    }
}

/// Per-workload sizing of the tenant worlds and their streams.
#[derive(Debug, Clone, Copy)]
struct Shape {
    n_sources: usize,
    /// World triples of the largest tenant; tenant `t` gets `1/(t+1)` of it.
    triples_largest: usize,
    /// Share of each world in the tenant's labelled seed.
    seed_fraction: f64,
    /// Streamed triples per message (each with its claims and labels).
    triples_per_batch: usize,
    /// Share of streamed triples that receive a (possibly deferred) label.
    label_fraction: f64,
    /// Deal the Zipf sizes so both shards hold about as many triples (see
    /// [`zipf_ranks`]); otherwise tenant `t` has rank `t + 1`.
    balanced: bool,
}

/// One workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Labelled seed per tenant, in tenant order.
    pub seeds: Vec<(u32, Dataset)>,
    /// Arrival-ordered messages: one tenant's batch of tenant-local events.
    pub messages: Vec<(u32, Vec<Event>)>,
    /// Zipf read weight per tenant (the largest tenant is the hottest).
    pub read_weights: Vec<f64>,
}

impl Inputs {
    /// Events across all messages.
    pub fn n_events(&self) -> usize {
        self.messages.iter().map(|(_, e)| e.len()).sum()
    }

    /// A fresh copy of the seeds, as `ShardRouter::new` takes them.
    pub fn router_seeds(&self) -> Vec<(TenantId, Dataset)> {
        self.seeds
            .iter()
            .map(|(t, ds)| (TenantId(*t), ds.clone()))
            .collect()
    }
}

/// Generate `workload`'s inputs from `seed`: the same seed gives the same
/// inputs.
pub fn generate(workload: Workload, seed: u64) -> Result<Inputs, String> {
    let shape = workload.shape();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7065_7266_6265_6e63);
    let mut seeds = Vec::with_capacity(N_TENANTS);
    let mut streams: Vec<Vec<Vec<Event>>> = Vec::with_capacity(N_TENANTS);
    let ranks = zipf_ranks(shape.balanced);
    for (t, &rank) in ranks.iter().enumerate() {
        let n_triples =
            ((shape.triples_largest as f64 / (rank as f64).powf(SKEW)).round() as usize).max(40);
        let streamed = (n_triples as f64 * (1.0 - shape.seed_fraction)).ceil() as usize;
        let world_seed = seed.wrapping_mul(1_000_003).wrapping_add(t as u64);
        let spec = StreamSpec {
            base: world(t, shape.n_sources, n_triples, world_seed),
            seed_fraction: shape.seed_fraction,
            n_batches: streamed.div_ceil(shape.triples_per_batch).max(1),
            label_fraction: shape.label_fraction,
            add_source_every: None,
            seed: world_seed.rotate_left(17),
        };
        let (ds, batches) = event_stream(&spec).map_err(|e| format!("tenant {t} world: {e}"))?;
        seeds.push((t as u32, ds));
        streams.push(batches.into_iter().filter(|b| !b.is_empty()).collect());
    }
    Ok(Inputs {
        seeds,
        messages: interleave(streams, &mut rng),
        read_weights: ranks.iter().map(|&r| 1.0 / (r as f64).powf(SKEW)).collect(),
    })
}

/// The Zipf size rank (1 = largest) of each tenant. Unbalanced, tenant `t`
/// has rank `t + 1`, so the shard of tenant 0 is the larger. Balanced, ranks
/// are dealt largest first to the lighter shard (each shard hosting
/// `N_TENANTS / N_SHARDS` tenants), so both shards hold about as many
/// triples. A label batch rescores its whole shard, so unequal shards would
/// make the per-batch cost two-peaked and put the median between the peaks.
fn zipf_ranks(balanced: bool) -> Vec<usize> {
    if !balanced {
        return (1..=N_TENANTS).collect();
    }
    let mut ranks = vec![0; N_TENANTS];
    let mut load = [0.0f64; N_SHARDS];
    let mut hosted = [0usize; N_SHARDS];
    for rank in 1..=N_TENANTS {
        let shard = (0..N_SHARDS)
            .filter(|&s| hosted[s] < N_TENANTS / N_SHARDS)
            .min_by(|&a, &b| load[a].total_cmp(&load[b]))
            .expect("a shard has room");
        ranks[shard + N_SHARDS * hosted[shard]] = rank;
        hosted[shard] += 1;
        load[shard] += 1.0 / (rank as f64).powf(SKEW);
    }
    ranks
}

/// One tenant world: sources of varied quality, a positively correlated
/// group on false triples (shared extraction rules) and a complementary
/// group on true triples (complementary domains). Source qualities are
/// part of the workload's shape, fixed by tenant and source index, so a
/// new seed draws new data of the same size and difficulty.
fn world(tenant: usize, n_sources: usize, n_triples: usize, seed: u64) -> SynthSpec {
    // Golden-ratio sequences spread the qualities evenly over their ranges.
    let spread = |k: usize, step: f64| (k as f64 * step).fract();
    let sources = (0..n_sources)
        .map(|s| {
            let k = tenant * n_sources + s + 1;
            SourceSpec::new(
                0.7 + 0.2 * spread(k, 0.618_034),
                0.35 + 0.25 * spread(k, 0.414_214),
            )
        })
        .collect();
    let half = n_sources / 2;
    SynthSpec {
        n_triples,
        true_fraction: 0.5,
        sources,
        groups: Vec::new(),
        seed,
    }
    .with_group(GroupSpec {
        members: (0..half).collect(),
        polarity: Polarity::FalseTriples,
        kind: GroupKind::Positive { strength: 0.8 },
    })
    .with_group(GroupSpec {
        members: (half..n_sources).collect(),
        polarity: Polarity::TrueTriples,
        kind: GroupKind::Complementary { strength: 0.7 },
    })
}

/// Interleave per-tenant batch lists into one arrival order, keeping each
/// tenant's own order and drawing tenants by how many batches they have left.
fn interleave(mut streams: Vec<Vec<Vec<Event>>>, rng: &mut StdRng) -> Vec<(u32, Vec<Event>)> {
    let mut next = vec![0usize; streams.len()];
    let mut remaining: usize = streams.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(remaining);
    while remaining > 0 {
        let mut pick = rng.gen_range(0..remaining);
        let t = (0..streams.len())
            .find(|&t| {
                let left = streams[t].len() - next[t];
                pick = match pick.checked_sub(left) {
                    None => return true,
                    Some(rest) => rest,
                };
                false
            })
            .expect("draw lies below the remaining count");
        out.push((t as u32, std::mem::take(&mut streams[t][next[t]])));
        next[t] += 1;
        remaining -= 1;
    }
    out
}
