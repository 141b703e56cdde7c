//! Bring-up, correctness gate and teardown of the loopback stack: a
//! `ShardRouter` behind a `corrfuse-net` server, optionally with a
//! `corrfuse-replica` follower behind its `FollowerServer`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use corrfuse_core::{Dataset, Fuser, FuserConfig, Method};
use corrfuse_net::server::spawn;
use corrfuse_net::{Client, Server, ServerConfig, ServerHandle};
use corrfuse_obs::Registry;
use corrfuse_replica::{
    spawn as spawn_follower, Follower, FollowerConfig, FollowerServer, FollowerServerConfig,
    FollowerServerHandle,
};
use corrfuse_serve::stats::RouterStats;
use corrfuse_serve::tenant::NAMESPACE_SEP;
use corrfuse_serve::{JournalConfig, RouterConfig, ShardRouter, TenantId};
use corrfuse_stream::FsyncPolicy;

use crate::inputs::{Inputs, Workload, N_SHARDS};

/// Byte threshold of `claims_bulk`'s journal rotation. The larger shard's
/// compacted snapshot passes it late in a pass; from then on every batch
/// rewrites the whole snapshot (the rotation storm RATIONALE.md records).
pub const ROTATE_MAX_BYTES: u64 = 3_750_000;

/// The fusion model every shard, follower and reference fit uses.
pub fn fuser_config() -> FuserConfig {
    FuserConfig::new(Method::Exact)
}

/// The leader's router configuration for `workload`: two shards with the
/// default queue and batching, plus `claims_bulk`'s journal in
/// `journal_dir`.
pub fn router_config(
    workload: Workload,
    journal_dir: &Path,
    metrics: Option<&Arc<Registry>>,
) -> RouterConfig {
    let mut cfg = RouterConfig::new(N_SHARDS);
    match workload {
        Workload::ClaimsBulk => {
            cfg = cfg.with_journal(
                JournalConfig::new(journal_dir)
                    .with_fsync(FsyncPolicy::Never)
                    .with_rotate_max_bytes(ROTATE_MAX_BYTES),
            );
        }
        Workload::LabelsVerdict => {}
    }
    if let Some(r) = metrics {
        cfg = cfg.with_metrics(Arc::clone(r));
    }
    cfg
}

/// The follower half of a stack.
pub struct FollowerSide {
    /// The replica, shared with its server for in-process reads.
    pub follower: Arc<Follower>,
    /// The follower server's loopback address.
    pub addr: String,
    handle: FollowerServerHandle,
    join: JoinHandle<corrfuse_replica::Result<()>>,
}

/// A running stack.
pub struct Stack {
    /// The leader's router, for in-process reads and the gate.
    pub router: Arc<ShardRouter>,
    /// The leader server's loopback address.
    pub addr: String,
    handle: ServerHandle,
    join: JoinHandle<corrfuse_net::Result<RouterStats>>,
    /// The follower, once attached.
    pub follower: Option<FollowerSide>,
    journal_dir: PathBuf,
}

impl Stack {
    /// Fit the shard sessions from `seeds` and bind the leader: the span
    /// `setup_s` times.
    pub fn up(
        cfg: RouterConfig,
        seeds: Vec<(TenantId, Dataset)>,
        server_metrics: Option<&Arc<Registry>>,
    ) -> Result<Stack, String> {
        let journal_dir = cfg
            .journal
            .as_ref()
            .map(|j| j.dir.clone())
            .unwrap_or_default();
        let router =
            ShardRouter::new(fuser_config(), cfg, seeds).map_err(|e| format!("router: {e}"))?;
        let mut server_cfg = ServerConfig::new();
        if let Some(r) = server_metrics {
            server_cfg = server_cfg.with_metrics(Arc::clone(r));
        }
        let server =
            Server::bind("127.0.0.1:0", router, server_cfg).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let router = server.router_handle();
        let (handle, join) = spawn(server).map_err(|e| format!("spawn: {e}"))?;
        Ok(Stack {
            router,
            addr,
            handle,
            join,
            follower: None,
            journal_dir,
        })
    }

    /// Bootstrap a follower to the leader's current epochs and serve it on
    /// its own loopback server. Returns the bootstrap time in seconds.
    pub fn attach_follower(&mut self) -> Result<f64, String> {
        let epochs = self.router.epochs();
        let t = Instant::now();
        let follower = bootstrap_follower(&self.addr, &epochs)?;
        let bootstrap_s = t.elapsed().as_secs_f64();
        let fserver = FollowerServer::bind(
            "127.0.0.1:0",
            Arc::clone(&follower),
            FollowerServerConfig::new(),
        )
        .map_err(|e| format!("follower bind: {e}"))?;
        let addr = fserver.local_addr().map_err(|e| e.to_string())?.to_string();
        let (handle, join) = spawn_follower(fserver).map_err(|e| format!("follower spawn: {e}"))?;
        self.follower = Some(FollowerSide {
            follower,
            addr,
            handle,
            join,
        });
        Ok(bootstrap_s)
    }

    /// The correctness gate, run after a pass and outside every timer:
    /// each shard's served scores equal a fresh `Fuser::fit` + `score_all`
    /// on its final dataset bitwise, every tenant's SCORES over the wire
    /// equal that fit filtered to the tenant, and with a follower attached
    /// the follower's SCORES at the leader's final epoch equal the leader's.
    pub fn gate(&self, inputs: &Inputs) -> Result<(), String> {
        let stats = self.router.stats().aggregate();
        if stats.totals.ingest_errors > 0 || stats.totals.poisoned {
            return Err(format!("router errors: {:?}", stats.totals.last_error));
        }
        let mut leader = Client::connect(&self.addr).map_err(|e| format!("gate connect: {e}"))?;
        leader.flush().map_err(|e| format!("gate flush: {e}"))?;
        let mut reader = match &self.follower {
            Some(f) => {
                Some(Client::connect(&f.addr).map_err(|e| format!("gate follower connect: {e}"))?)
            }
            None => None,
        };
        for shard in 0..N_SHARDS {
            let snap = self
                .router
                .shard_snapshot(shard)
                .map_err(|e| format!("snapshot: {e}"))?;
            let fresh = fit_scores(&snap.dataset)?;
            if !bitwise_eq(&fresh, &snap.scores) {
                return Err(format!(
                    "shard {shard}: served scores differ from a fresh fit"
                ));
            }
            let ds = &snap.dataset;
            for (tenant, _) in inputs
                .seeds
                .iter()
                .filter(|(t, _)| *t as usize % N_SHARDS == shard)
            {
                let prefix = format!("{tenant}{NAMESPACE_SEP}");
                let expected: Vec<f64> = ds
                    .triples()
                    .filter(|t| ds.triple(*t).subject.starts_with(&prefix))
                    .map(|t| fresh[t.index()])
                    .collect();
                let wire = leader
                    .scores(TenantId(*tenant))
                    .map_err(|e| format!("gate scores: {e}"))?;
                if !bitwise_eq(&wire, &expected) {
                    return Err(format!(
                        "tenant {tenant}: SCORES over the wire differ from the fit"
                    ));
                }
                if let Some(r) = reader.as_mut() {
                    let replica = r
                        .scores_at(TenantId(*tenant), snap.epoch)
                        .map_err(|e| format!("gate follower scores: {e}"))?;
                    if !bitwise_eq(&replica, &expected) {
                        return Err(format!(
                            "tenant {tenant}: follower SCORES differ from the leader"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Stop the follower side and the leader; returns the leader's final
    /// router statistics. Removes the pass's journal directory.
    pub fn down(self) -> Result<RouterStats, String> {
        if let Some(f) = self.follower {
            f.handle.stop();
            f.join
                .join()
                .map_err(|_| "follower server panicked".to_string())?
                .map_err(|e| format!("follower server: {e}"))?;
            f.follower.shutdown();
        }
        drop(self.router);
        self.handle.stop();
        let stats = self
            .join
            .join()
            .map_err(|_| "server panicked".to_string())?
            .map_err(|e| format!("server: {e}"))?;
        if !self.journal_dir.as_os_str().is_empty() {
            std::fs::remove_dir_all(&self.journal_dir).ok();
        }
        Ok(stats)
    }
}

/// Connect a follower to the leader at `addr` and wait until every shard
/// holds a session at the leader's `epochs`.
pub fn bootstrap_follower(addr: &str, epochs: &[u64]) -> Result<Arc<Follower>, String> {
    let config = FollowerConfig::new(fuser_config()).with_catchup_timeout(Duration::from_secs(60));
    let follower = Follower::connect(addr, config).map_err(|e| format!("follower connect: {e}"))?;
    // Tenant `s` lives on shard `s`; its bounded read waits for the shard.
    for (shard, &epoch) in epochs.iter().enumerate() {
        follower
            .scores_at(TenantId(shard as u32), epoch)
            .map_err(|e| format!("follower bootstrap of shard {shard}: {e}"))?;
    }
    Ok(Arc::new(follower))
}

/// A fresh `Fuser::fit` + `score_all` on `ds`, the reference of the gate.
pub fn fit_scores(ds: &Dataset) -> Result<Vec<f64>, String> {
    let gold = ds.gold().ok_or("shard dataset has no gold labels")?;
    let fuser = Fuser::fit(&fuser_config(), ds, gold).map_err(|e| format!("fit: {e}"))?;
    fuser.score_all(ds).map_err(|e| format!("score: {e}"))
}

/// Equal length and bit-for-bit equal values.
pub fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
